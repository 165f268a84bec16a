"""Command-line surface of fglab: one command per computation family.

Each command prints a table as text, csv or json, and reproduce-paper
recomputes every embedded golden table and diffs it cell by cell.

Exit codes: 0 success, 1 computation error, 2 usage error, 3 golden-diff
failure.  Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import prod

from .errors import FglabError, NotAUnit, NotInDomain, UnsupportedDimension, UsageError


def _emit(rows, headers, fmt, out):
    """rows: tuples of values, in the order callers give; each header and
    cell is printed as its str(), here and nowhere else."""
    headers = [str(h) for h in headers]
    rows = [[str(c) for c in r] for r in rows]
    if fmt == "csv":
        import csv
        w = csv.writer(out, lineterminator="\n")
        w.writerow(headers)
        w.writerows(rows)
    elif fmt == "json":
        _json([dict(zip(headers, r)) for r in rows], out)
    else:
        widths = [max([len(h), *(len(r[i]) for r in rows)]) for i, h in enumerate(headers)]
        out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _json(obj, out):
    """Write a JSON value with sorted keys, one space of indent and a final newline."""
    import json
    json.dump(obj, out, indent=1, sort_keys=True)
    out.write("\n")


def _at_most(flag, value, cap, what):
    if value > cap:
        raise UsageError(f"{flag}: {value} is above the {what} cap of {cap}")


@contextmanager
def _domain(flag, error):
    """The library's out-of-domain ``error`` for the value of ``flag`` is a usage error."""
    try:
        yield
    except error as e:
        raise UsageError(f"{flag}: {e}") from None


# -- subcommand implementations ---------------------------------------------------


def cmd_series(args, out):
    from . import fgl, series
    n = args.order
    g = fgl.generic_strict_series(n + 1, n)
    inv = g.comp_inverse("t")
    if args.action == "invert":
        rows = []
        for k in range(1, n + 1):
            rows.append((f"c{k}", inv.coeff_in_var("t", k + 1)))
        _emit(rows, ["coefficient", "value"], args.format, out)
    elif args.action == "residue":
        rows = []
        for k in range(1, n + 1):
            r = series.residue_inverse_coeff(g, "t", k)
            rows.append((f"c{k}", r, "agree" if r == inv.coeff_in_var("t", k + 1) else "DIFFER"))
        _emit(rows, ["coefficient", "residue_formula", "vs_recursive"], args.format, out)
    return 0


def cmd_fgl(args, out):
    from . import fgl
    if args.action == "twist":
        _at_most("--bound", args.bound, fgl.MAX_TWIST_BOUND, "twist")
        _at_most("--nb", args.nb, fgl.MAX_TWIST_BOUND - 1, "twist")
        g = fgl.generic_strict_series(args.bound, args.nb)
        law = fgl.fgl_twist(fgl.multiplicative_law(args.bound), g)
        rows = [(f"a{i}{j}", c) for (i, j), c in sorted(law.coeff_table().items()) if i <= j]
        _emit(rows, ["coefficient", "image"], args.format, out)
        return 0
    from . import bordism
    if args.action == "cpn":
        with _domain("--n", UnsupportedDimension):
            poly = bordism.cpn_in_a(args.n, args.mode)
        _emit([(f"CP{args.n}", poly)], ["class", "polynomial"], args.format, out)
    elif args.action == "box-diff":
        rows = []
        for n in range(1, 5):
            d = bordism.cpn_box_diff(n)
            rows.append((f"CP{n}", "match" if d.is_zero() else f"box - residue = {d}"))
        _emit(rows, ["class", "paper_box_vs_residue_exact"], args.format, out)
    elif args.action == "miscenko":
        with _domain("--expr", (UsageError, UnsupportedDimension, NotInDomain)):
            # text outside the grammar, a number of too many digits, a dimension
            # beyond the twist cap, or a factor the mode cannot tabulate, is
            # refused before the twist
            expr = bordism.BordismExpr.parse(args.expr)
            if expr.terms:
                bordism.cpn_in_a(max(max(key) for key in expr.terms), args.mode)
            nb = expr.dimension()
            tw = fgl.fgl_twist(fgl.multiplicative_law(nb + 2), fgl.generic_strict_series(nb + 2, nb))
            img = bordism.miscenko_image(expr, tw, args.mode)
        _emit([(args.expr, args.mode, img)], ["expression", "mode", "image"], args.format, out)
    return 0


def cmd_chern(args, out):
    from . import chern
    if args.action == "total":
        try:
            dims = [int(d) for d in args.dims.split(",")]
        except ValueError:
            raise UsageError(f"--dims expects comma-separated integers, got {args.dims!r}") from None
        with _domain("--dims", UsageError):
            p = chern.ProjProduct(dims)
        _chern_size("--dims", p.dims)
        tc = chern.total_chern(p)
        rows = [(tc.monomial_str(exp) or "1", c) for exp, c in tc.sorted_terms()]
        _emit(rows, ["monomial", "coefficient"], args.format, out)
    elif args.action == "system":
        basis = _dim_basis(args.dim)
        monos = chern.chern_monomials_with_c1(args.dim)
        rows = [(chern.monomial_label(mono), *row)
                for mono, row in zip(monos, chern.su_constraint_system(basis, args.dim))]
        _emit(rows, ["constraint"] + [b.label() for b in basis], args.format, out)
    elif args.action == "reduce":
        basis = _dim_basis(args.dim)
        red = chern.integer_reduce(chern.su_constraint_system(basis, args.dim))
        rows = [(f"row{i+1}", *r) for i, r in enumerate(red)]
        _emit(rows, ["row"] + [b.label() for b in basis], args.format, out)
    elif args.action == "nullspace":
        basis = _dim_basis(args.dim)
        ns = chern.nullspace_rational(chern.su_constraint_system(basis, args.dim))
        rows = [(f"v{i+1}", *v) for i, v in enumerate(ns)]
        _emit(rows, ["vector"] + [b.label() for b in basis], args.format, out)
    elif args.action == "todd":
        from .series import MAX_DIGITS
        entries = args.inputs.split(",")
        try:
            # an exponent or a long number is refused before Fraction builds its integer
            if any("e" in v.lower() or sum(map(str.isdigit, v)) > MAX_DIGITS for v in entries):
                raise ValueError
            vals = [Fraction(v) for v in entries]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--inputs expects comma-separated rationals of at most {MAX_DIGITS} digits "
                             f"each and no exponent, got {args.inputs!r}") from None
        if len(vals) != 5:
            raise UsageError("todd expects c1^4,c1c3,c1^2c2,c2^2,c4")
        t4 = chern.todd_t4(*vals)
        _emit([(args.inputs, t4)], ["chern_numbers", "T4"], args.format, out)
    return 0


# the most terms c(M) may have, prod_i (n_i + 1) for M = CP^n1 x ... x CP^nr:
# chern system --dim 12, 2^12 terms, takes ~6 s
MAX_TERMS = 2 ** 12


def _chern_size(flag, dims):
    """c(M) has prod (n_i + 1) terms; more than MAX_TERMS is a usage error."""
    if (terms := prod(n + 1 for n in dims)) > MAX_TERMS:
        raise UsageError(f"{flag}: c(M) would have {terms} terms, above the cap of {MAX_TERMS}")


def _dim_basis(dim):
    """The paper's basis in dimension 4, else every product of projective
    spaces of total complex dimension ``dim``, one per partition in
    lexicographic order, whose largest c(M), at CP^1 x ... x CP^1, has 2^dim
    terms."""
    from . import chern, series
    _chern_size("--dim", (1,) * dim)
    if dim == 4:
        return chern.paper_dim8_basis()
    return [chern.ProjProduct(p) for p in series.partitions(dim)]


def cmd_adams(args, out):
    from . import adams
    if args.action in ("psi-dk", "spherical"):
        from . import cannibal
    if args.action == "beta":
        elt = adams.psi_inv_beta(args.k, args.i)
        if args.mod2:
            elt = elt.mod2()
        _emit([(f"psi^(1/{args.k}) beta_{args.i}", elt)], ["operation", "value"], args.format, out)
    elif args.action == "beta-table":
        rows = []
        for i in range(1, args.imax + 1):
            elt = adams.psi_inv_beta(args.k, i)
            if args.mod2:
                elt = elt.mod2()
            rows.append((f"beta_{i}", elt))
        _emit(rows, ["generator", "image"], args.format, out)
    elif args.action == "nki":
        _nki_reaches(args.nki, args.k, f"got --k {args.k}")
        table = adams.nki_coeffs(args.k, args.nki)
        rows = [(f"n_{args.k}^{i}", c) for i, c in sorted(table.items())]
        _emit(rows, ["coefficient", "value"], args.format, out)
    elif args.action == "relations":
        # a relation sits at x^a y^b z^c with a, b, c >= 1 and a != c; the first is x^2*y*z
        rows = []
        for (a, b, c), poly in adams.gen_2structure_relations(args.degree).items():
            rows.append((f"x^{a}*y^{b}*z^{c}", poly, poly.set_u().content_normalize()))
        _emit(rows, ["monomial", "relation", "relation_at_u_1"], args.format, out)
    elif args.action == "psi-dk":
        p = cannibal.psi_dk_table(args.level, _reducer(args.k, args.nki, "--k"), [args.k])[args.k]
        if args.format == "json":
            _json(p.to_json_obj(), out)
        else:
            _emit([(f"d{args.k}", args.level, p)], ["generator", "level", "psi_image"], args.format, out)
    elif args.action == "spherical":
        if args.max_weight % 2:
            raise UsageError(f"--max-weight must be even, got {args.max_weight}")
        W = args.max_weight // 2
        table = cannibal.psi_dk_table(args.level, _reducer(W, args.nki, "--max-weight"), range(2, W + 1))
        kern, new = adams.spherical_search(args.max_weight, table)
        rows = []
        for w in range(2, args.max_weight + 1, 2):
            elts = new.get(w, [])
            if not elts:
                rows.append((w, "-"))
            for e in elts:
                rows.append((w, e))
        _emit(rows, ["weight", "kernel_class_mod2"], args.format, out)
    return 0


def _nki_reaches(nki, k, context):
    """--nki paper has n_k^i only for k in the paper's table."""
    from .adams import NKI_PAPER
    if nki == "paper" and k > max(NKI_PAPER):
        raise UsageError(f"--nki paper covers k <= {max(NKI_PAPER)}, {context}")


# the largest halved weight W the CLI builds a reducer for: at W = 29,
# spherical --max-weight 58 --level thom takes ~17 s and ~410 MB, and at
# W = 30 its --max-weight 60 takes ~24 s and ~600 MB, growing ~1.5x per weight
MAX_WEIGHT = 29


def _reducer(W, nki, flag):
    """The d_k reducer through halved weight W, which needs n_k^i for every
    k <= W; psi on the d_k reads that --nki choice from it.  A W above
    MAX_WEIGHT, which ``flag`` sets, is refused before anything is built."""
    from .adams import DReducer
    if W > MAX_WEIGHT:
        raise UsageError(f"{flag}: the reducer through weight {W} is above the cap of {MAX_WEIGHT}")
    _nki_reaches(nki, W, f"but this command needs the reducer through weight {W}")
    return DReducer(W, nki_mode=nki)


def cmd_cannibal(args, out):
    from . import cannibal
    if args.action == "table":
        tab = cannibal.theta3_direct(args.bound)
        rows = []
        for m in range(args.bound + 1):
            rows.append((m, *[tab[m, n] for n in range(args.bound + 1)]))
        _emit(rows, ["m\\n", *range(args.bound + 1)], args.format, out)
    elif args.action == "closed":
        _emit([(args.m, args.n, cannibal.theta3_closed(args.m, args.n))],
              ["m", "n", "c_mn"], args.format, out)
    elif args.action == "tseq":
        ts = cannibal.ThetaGenSeq(args.n)
        rows = [(k, ts[k], cannibal.theta_gen_closed(k)) for k in range(args.n + 1)]
        _emit(rows, ["k", "recurrence", "closed_form"], args.format, out)
    return 0


def cmd_mahler(args, out):
    from . import mahler
    if args.action == "dilate":
        # --padic replaces the integer --k, and only it reads --precision
        unread, when = ("--k", "with") if args.padic is not None else ("--precision", "without")
        if unread in args.given:
            raise UsageError(f"{unread} is not read by dilate {when} --padic")
        # C(kT, i) divides by i!, whose 2-adic valuation is i - popcount(i) (Legendre)
        if args.padic is not None and args.precision <= (v := args.i - args.i.bit_count()):
            raise UsageError(f"--precision must be > {v} to divide by {args.i}!, "
                             f"a multiple of 2^{v}, got {args.precision}")
        k = mahler.Padic2(args.padic, args.precision) if args.padic is not None else args.k
        with _domain("--padic", NotAUnit):
            np_ = mahler.dilate(k, args.i)
        if args.format == "json" and args.padic is None:
            _json(np_.to_json_obj(), out)
        else:
            _emit([(f"C({args.k if args.padic is None else args.padic}T,{args.i})", np_)],
                  ["dilation", "expansion"], args.format, out)
    elif args.action == "matrix":
        rows_ = mahler.dilation_matrix(args.k, args.imax)
        rows = [(i, *row) for i, row in enumerate(rows_)]
        _emit(rows, ["i\\j", *range(args.imax + 1)], args.format, out)
    elif args.action == "vs-adams":
        mahler.dilation_vs_adams(args.imax)
        _emit([("sign-conjugation identity", f"verified for i,j <= {args.imax}")],
              ["check", "result"], args.format, out)
    return 0


def cmd_artin_schreier(args, out):
    from .mahler import artin_schreier_check
    with _domain("--u", NotInDomain):
        res = artin_schreier_check(args.u, args.precision)
    rows = [
        ("b = -log(u)/log(81)", f"{res['b'].value} mod 2^{res['b'].precision}"),
        ("-log(u/81)/log(81)", f"{res['lhs'].value} mod 2^{res['lhs'].precision}"),
        ("b + 1", f"{res['rhs'].value} mod 2^{res['rhs'].precision}"),
        ("verified", "true" if res["verified"] else "false"),
    ]
    _emit(rows, ["quantity", "value"], args.format, out)
    return 0 if res["verified"] else 1


def cmd_reproduce(args, out):
    from .golden_data import all_tables
    tables = all_tables()
    any_diff = False
    unexpected = False
    for tab in tables:
        diffs = tab.diff()
        status = "MATCH"
        if diffs:
            any_diff = True
            known = all(d.known for d in diffs)
            status = f"DIFF({len(diffs)} cells{', all documented transcription errors' if known else ''})"
            if not known:
                unexpected = True
        out.write(f"[{tab.table_id}] {tab.paper_ref}: {status}\n")
        if diffs and args.verbose:
            for d in diffs:
                note = f"  [{d.note}]" if d.note else ""
                out.write(f"    {d.key}: paper={d.expected} computed={d.computed}{note}\n")
    if not any_diff:
        out.write("all tables match\n")
        return 0
    out.write("golden diffs found"
              + (" (all are documented paper transcription errors)\n" if not unexpected else "\n"))
    return 3


# -- argument parsing --------------------------------------------------------------


# command -> (what it computes, its actions, {flag: (the actions that read it,
# None for all of them; its least value and its most value, each None for
# none, a number, or {action: number}; argparse options with this command's
# default)}, the handler main calls).  The parser takes each flag once, with
# no default; _scope_action_flags checks what was given against this table and
# sets the defaults.  Beside each most value is what a fresh process, unscaled,
# takes at it and above it.
OUT = {"--out": (None, None, None, dict(metavar="FILE"))}
FORMAT_OUT = {"--format": (None, None, None, dict(default="text", choices=["text", "csv", "json"])), **OUT}
# --precision of mahler dilate --padic and of artin-schreier: dilate --padic 3
# --precision 5000 takes ~4.5 s and 10000 ~8.6 s, artin-schreier --precision
# 10000 ~1.6 s and 20000 ~13 s
PRECISION = (16, 5000, dict(type=int, default=64))
COMMANDS = {
    "series": ("inverse-series coefficients", "invert residue", {
        **FORMAT_OUT,
        # invert --order 24 takes ~1.6 s, 30 ~11 s and 40 ~160 s (390 MB);
        # residue --order 16 ~2 s, 18 ~5.6 s and 20 ~17 s
        "--order": (None, 1, {"invert": 24, "residue": 16}, dict(type=int, default=4)),
    }, cmd_series),
    "fgl": ("formal group law computations", "twist cpn box-diff miscenko", {
        **FORMAT_OUT,
        # capped in cmd_fgl at fgl.MAX_TWIST_BOUND, which bordism reads too
        "--bound": ("twist", 2, None, dict(type=int, default=12)),
        "--mode": ("cpn miscenko", None, None,
                   dict(default="paper-box", choices=["paper-box", "residue-exact"])),
        "--nb": ("twist", 0, None, dict(type=int, default=5)),
        # cpn --mode residue-exact --n 30 takes 0.4 s (33 MB), 40 3.2-3.9 s
        # (166 MB), 44 7.1 s (345 MB) and 50 23 s (935 MB)
        "--n": ("cpn", 1, 40, dict(type=int, default=4)),
        "--expr": ("miscenko", None, None, dict(default="1/4*K3SQ + 12*N")),
    }, cmd_fgl),
    "chern": ("Chern classes and the SU constraint system", "total system reduce nullspace todd", {
        **FORMAT_OUT,
        "--dims": ("total", None, None, dict(default="1,3")),
        "--dim": ("system reduce nullspace", 1, None, dict(type=int, default=4)),  # capped by MAX_TERMS
        "--inputs": ("todd", None, None, dict(default="625,50,250,100,5")),
    }, cmd_chern),
    "adams": ("Adams operations on K-homology", "beta beta-table nki relations psi-dk spherical", {
        **FORMAT_OUT,
        "--nki": ("nki psi-dk spherical", None, None,
                  dict(default="auto", choices=["paper", "extended-gcd", "auto"])),
        # n_k^i and psi on d_k start at k = 2.  At the index caps, beta --i 500
        # takes ~5.4 s at --k 10 and ~10 s at 100, beta-table --imax 200
        # ~8.5-11 s at 10, ~15 s at 100 and more than 40 s at 10^5.  For a
        # prime power k the gcd of the C(k, i) never reaches 1, so nki's
        # extended-gcd runs over every i < k, and at powers of 2 its Bezout
        # coefficients grow fastest: 0.45-0.5 s at 4093 (prime) and 4096, whose
        # largest n_k^i has 3847 digits, the most of any k <= 4096; 1.5 s at
        # 6561 = 3^8 and 2.6 s at 8191 (prime); at 8192 the coefficients pass
        # the 4300 digits Python prints, and 16384 takes ~20 s.  psi-dk is
        # capped by MAX_WEIGHT
        "--k": ("beta beta-table nki psi-dk", {"beta": 1, "beta-table": 1, "nki": 2, "psi-dk": 2},
                {"beta": 10, "beta-table": 10, "nki": 4096}, dict(type=int, default=3)),
        # at --k 3, beta --i 500 takes ~2.2 s and --i 600 ~4.5 s, beta-table
        # --imax 200 ~3.5 s and --imax 250 ~10 s, both cubic in the index
        "--i": ("beta", 0, 500, dict(type=int, default=3)),
        "--imax": ("beta-table", 1, 200, dict(type=int, default=10)),
        "--mod2": ("beta beta-table", None, None, dict(action="store_true", default=False)),
        # 2.0 s (94 MB) at 24, 4.4-5.8 s (205 MB) at 28, 10.5-11.4 s (359 MB)
        # at 32 and 38 s (1.3 GB) at 40
        "--degree": ("relations", 4, 28, dict(type=int, default=7)),
        "--level": ("psi-dk spherical", None, None, dict(default="base", choices=["base", "thom"])),
        "--max-weight": ("spherical", 2, None, dict(type=int, default=20)),  # capped by MAX_WEIGHT
    }, cmd_adams),
    "cannibal": ("cannibalistic class tables", "table closed tseq", {
        **FORMAT_OUT,
        # table prints (bound + 1)^2 cells; stdout to /dev/null, --bound 300
        # takes ~0.5 s and ~47 MB, 600 ~2.4 s and ~209 MB, 700 ~4-5 s and
        # ~260-315 MB in any --format, memory growing ~4.5x per doubling
        "--bound": ("table", 2, 700, dict(type=int, default=12)),
        # closed: c_mn has denominator up to 3^((m + n) // 2), whose 4300
        # digits at m = n = 9012 are the most Python prints by default; it
        # takes ~0.1 s at any size.  tseq's output grows as n^2 (t_k has about
        # k/4 digits); stdout to a pipe, --n 4000 takes ~0.2 s, ~30 MB and
        # prints 5.5 MB, 9000 ~0.7 s, ~90 MB and 27.5 MB; --n 18023, the most
        # whose t_k Python prints by default, ~4.5 s, ~310 MB and 110 MB
        "--m": ("closed", 0, 9012, dict(type=int, default=2)),
        "--n": ("closed tseq", 0, {"closed": 9012, "tseq": 4000}, dict(type=int, default=2)),
    }, cmd_cannibal),
    "mahler": ("binomial-basis dilation", "dilate matrix vs-adams", {
        **FORMAT_OUT,
        "--precision": ("dilate", *PRECISION),
        # the integer --k, which --padic replaces: at the index caps dilate
        # --k 10000 takes ~3 s and matrix ~4.5 s, while at --k 10^6 dilate's
        # x^1000 coefficient has more than the 4300 digits Python prints
        "--k": ("dilate matrix", -10000, 10000, dict(type=int, default=3)),
        # at --k 3, dilate --i 1000 takes ~1.8 s and --i 2000 ~7.7 s, matrix
        # --imax 200 ~3.9 s (3 MB of output) and --imax 300 ~13 s, vs-adams
        # --imax 100 ~1.5 s and --imax 200 ~17 s
        "--i": ("dilate", 0, 1000, dict(type=int, default=4)),
        "--imax": ("matrix vs-adams", 0, {"matrix": 200, "vs-adams": 100}, dict(type=int, default=6)),
        "--padic": ("dilate", None, None, dict(type=int)),
    }, cmd_mahler),
    "artin-schreier": ("2-adic Artin-Schreier verification", "", {
        **FORMAT_OUT,
        "--precision": (None, *PRECISION),
        "--u": (None, None, None, dict(type=int, default=17)),
    }, cmd_artin_schreier),
    "reproduce-paper": ("recompute and diff all golden tables", "", {
        **OUT,
        "--verbose": (None, None, None, dict(action="store_true", default=False)),
    }, cmd_reproduce),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose own errors are usage errors."""

    def error(self, message):
        raise UsageError(message)


def _range_help(word, bound):
    """A least or most value as help prints it: nothing for None, else
    ``word N``, with ``for ACTIONS`` once per value of an {action: N}."""
    if not isinstance(bound, dict):
        return [] if bound is None else [f"{word} {bound}"]
    by_value = {}
    for action, n in bound.items():
        by_value.setdefault(n, []).append(action)
    return [f"{word} {n} for {' '.join(actions)}" for n, actions in by_value.items()]


def build_parser():
    """One parser for every command: the command, an optional action and
    each flag of COMMANDS once, with no default (None: not given).  Its
    help lists each command's actions and each flag's readers and defaults."""
    p = _Parser(prog="fglab", usage="fglab COMMAND [ACTION] [FLAGS]", description=__doc__.splitlines()[0],
                formatter_class=argparse.RawDescriptionHelpFormatter,
                epilog="commands and their actions; flags may come before or after the action:\n"
                       + "\n".join(f"  {c} {a.replace(' ', '|')}".rstrip() + f": {what}"
                                   for c, (what, a, _, _) in COMMANDS.items()))
    p.add_argument("command", choices=list(COMMANDS), metavar="COMMAND")
    p.add_argument("action", nargs="?", metavar="ACTION")
    flags = {}  # flag -> (its options, {what some commands' actions read of it: those commands})
    for command, (_, _, own, _) in COMMANDS.items():
        for flag, (readers, low, high, opts) in own.items():
            what = ", ".join([readers or "all", f"default {opts.get('default')}",
                              *_range_help("at least", low), *_range_help("at most", high)])
            flags.setdefault(flag, (opts, {}))[1].setdefault(what, []).append(command)
    for flag, (opts, reads) in flags.items():
        p.add_argument(flag, **{**opts, "default": None},
                       help="; ".join(f"{' '.join(commands)}: {what}" for what, commands in reads.items()))
    return p


def _scope_action_flags(args):
    """The one check of a parsed command line against COMMANDS: the action
    is one of the command's, each given flag is read by the command and
    action and lies between its least and most values, and each flag of the
    command that was not given gets the command's default.  The given flags are
    recorded in ``args.given``; any other case is a usage error that names
    the action or the flag."""
    _, actions, own, _ = COMMANDS[args.command]
    actions = actions.split()
    if args.action not in (actions or [None]):
        takes = f"one of {', '.join(actions)}" if actions else "no action"
        raise UsageError(f"action: {args.command} takes {takes}, got {args.action or 'none'}")
    args.given = set()
    for flag in dict.fromkeys(flag for _, _, flags, _ in COMMANDS.values() for flag in flags):
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            if flag in own:
                setattr(args, dest, own[flag][3].get("default"))
            continue
        args.given.add(flag)
        if flag not in own:
            raise UsageError(f"{flag} is not read by {args.command}")
        readers, low, high, _ = own[flag]
        if readers and args.action not in readers.split():
            *rest, last = readers.split()
            names = f"{', '.join(rest)} and {last}" if rest else last
            raise UsageError(f"{flag} is read by {names} only, not by {args.action}")
        value = getattr(args, dest)
        low, high = (b.get(args.action) if isinstance(b, dict) else b for b in (low, high))
        if low is not None and value < low:
            raise UsageError(f"{flag} must be >= {low}, got {value}")
        if high is not None:
            _at_most(flag, value, high, args.action or args.command)


def main(argv=None):
    buf = io.StringIO()
    try:
        args = build_parser().parse_intermixed_args(argv)
        _scope_action_flags(args)
        code = COMMANDS[args.command][3](args, buf)
    except SystemExit:  # --help
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except FglabError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # the CLI contract: no traceback reaches the user
        print(f"computation error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"usage error: cannot write {args.out}: {e.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
